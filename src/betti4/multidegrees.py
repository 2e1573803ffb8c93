"""The lcm-lattice points that are not cones, walked pairwise on bitset
columns of the generators that the formula route reads as well.

enumerate_multidegrees grows lcms one generator at a time from the live
points, so its work is q times the live points, mostly repeats and
cones.
"""

from functools import lru_cache
from operator import itemgetter

from .errors import GeneratorCapExceeded
from .monomials import UNIT

DEFAULT_GEN_CAP = 20

_X4 = itemgetter(3)


def check_cap(gens, cap):
    """Refuse more than cap generators.  Both routes call it before they
    walk, so they refuse the same ideals with the same message.  The cap
    guards the worst case: in four variables an lcm of generators is the
    lcm of at most four of them, one attaining each coordinate, so a
    walk returns at most C(q, 0) + ... + C(q, 4) points, about q^4 / 24."""
    if len(gens) > cap:
        raise GeneratorCapExceeded(f"{len(gens)} generators exceed the cap of {cap}")


def generator_columns(gens):
    """Per-variable bitset columns of the generators, one bit apiece.

    Returns (order, upto, below).  Bit i stands for order[i]: the
    generators sorted by x4, ties left in lex order.  upto[j] and
    below[j] are dicts keyed by 0 and every x_j exponent of the
    generators, which are all the coordinates an lcm-lattice point can
    have, and upto[j] holds its keys in increasing order: upto[j][v]
    holds the generators with x_j <= v and, for v > 0, below[j][v]
    those with x_j < v, while below[j][0] holds those with x_j == 0.
    So for any point m, below[j][m_j] holds the generators that lie
    strictly below m in x_j if x_j is in supp(m) and off x_j otherwise.
    Their size follows the number of generators, not the size of the
    exponents.
    """
    order = sorted(gens, key=_X4)
    # each below column first holds, at each key, the generators equal to it
    l0, l1, l2, l3 = below = {0: 0}, {0: 0}, {0: 0}, {0: 0}
    bit = 1
    for g0, g1, g2, g3 in order:
        l0[g0] = l0.get(g0, 0) | bit
        l1[g1] = l1.get(g1, 0) | bit
        l2[g2] = l2.get(g2, 0) | bit
        l3[g3] = l3.get(g3, 0) | bit
        bit <<= 1
    # a generator sits in one entry of each column, so running unions
    # over the increasing keys are the upto sets, and the union before
    # a key is its below set
    upto = {}, {}, {}, {}
    for lt, up in zip(below, upto):
        run = 0
        for v in sorted(lt):
            equal = lt[v]
            lt[v] = run
            run |= equal
            up[v] = run
        lt[0] = up[0]
    return order, upto, below


class Walk(tuple):
    """The walked points, a lex-sorted tuple; enumerate_multidegrees sets
    .columns to the generator_columns it tested them on."""


def enumerate_multidegrees(ideal, cap=DEFAULT_GEN_CAP):
    """The unit and the lcm-lattice points that are not cones, as a Walk.

    An lcm m of generators is a cone when x^(m - supp m) lies in the
    ideal: some generator h has h <= m - supp m, i.e. h divides m and
    lies strictly below it in every variable of its support.  The upper
    Koszul complex at a cone is the full simplex on supp(m), which is
    acyclic, so no Betti number sits there; the formula route keys such
    a point to the full family of twin masks, whose row is zero too.

    x^(m - supp m) is in the ideal iff m is in the ideal generated by
    the h + supp h, so the cones form an upward closed set: every lcm
    of a subset of a live (non-cone) point's generators is live as
    well.  The loop therefore grows lcms one generator at a time from
    the live points only and still reaches every live point.  Each
    candidate is tested once, with four lookups in the below columns
    built here: below[j][m_j] holds the generators that fit
    m - supp m in x_j, so m is a cone iff the four sets meet.  A
    minimal generator is never a cone and joins without a test.  The
    unit is always returned: in the unit ideal it is the one lattice
    point and, though a cone, carries the row (1, 1, 0, 0, 0).  The
    result carries the columns it tested the points on, so a caller can
    read the generators at the points without building its own.

    The result for the most recent (ideal, cap) is memoized (one entry),
    so the four oracle calls of verify share one walk, and the oracle
    keys its own memo on that walk's identity.  The key is the ideal
    and the cap's value, however the cap was passed or left out, so
    equal calls get the identical walk.  The cap is part of the key, so
    a call with a lower cap checks it again; an exception is never
    cached.
    """
    return _walk(ideal, cap)


@lru_cache(maxsize=1)
def _walk(ideal, cap):
    gens = ideal.gens
    check_cap(gens, cap)
    columns = generator_columns(gens)
    lt0, lt1, lt2, lt3 = columns[2]
    seen = set()
    live = []
    new = []
    for g in gens:
        g0, g1, g2, g3 = g
        for v0, v1, v2, v3 in live:
            # lcm(v, g), written out: a call per pair costs more than the max itself
            m0 = v0 if v0 > g0 else g0
            m1 = v1 if v1 > g1 else g1
            m2 = v2 if v2 > g2 else g2
            m3 = v3 if v3 > g3 else g3
            m = (m0, m1, m2, m3)
            if m in seen:
                continue
            seen.add(m)
            if not lt0[m0] & lt1[m1] & lt2[m2] & lt3[m3]:
                new.append(m)
        if new:
            live += new
            new.clear()
        live.append(g)
    # the unit is always a point, and in the unit ideal already the generator
    if gens != (UNIT,):
        live.append(UNIT)
    live.sort()
    walk = Walk(live)
    walk.columns = columns
    return walk

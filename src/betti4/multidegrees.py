"""The multidegrees both routes visit: the lcm-lattice points that are not
cones, walked on bitset columns of the generators that the formula route
reads as well.

Two loops list the same points.  The pairwise loop grows lcms one
generator at a time from the live points, so its work is q times the
live points, mostly repeats and cones.  The coordinate loop lists the
points a coordinate at a time over the generators' exponents, so its
work follows the points it returns, but it builds more per ideal
before it starts.  enumerate_multidegrees takes the pairwise loop
below COORDINATE_FROM generators, where it is the faster of the two,
and the coordinate loop from there on.
"""

from functools import lru_cache
from operator import itemgetter

from .errors import GeneratorCapExceeded
from .monomials import UNIT

DEFAULT_GEN_CAP = 20

# the generator count from which the coordinate loop is the faster one on
# random ideals with exponents up to 6 (on same-degree staircases it is
# already from 6); CHANGES.md has the table of both loops' cost by q
COORDINATE_FROM = 10

_X4 = itemgetter(3)


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


def _pairwise(gens, columns):
    """The walk's points, lex-sorted, grown one generator at a time.

    x^(m - supp m) is in the ideal iff m is in the ideal generated by
    the h + supp h, so the cones form an upward closed set: every lcm
    of a subset of a live (non-cone) point's generators is live as
    well.  The loop therefore grows lcms one generator at a time from
    the live points only and still reaches every live point.  Each
    candidate is tested once, with four lookups in the below columns:
    below[j][m_j] holds the generators that fit m - supp m in x_j, so m
    is a cone iff the four sets meet.  A minimal generator is never a
    cone and joins without a test.
    """
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
    return live


def _coordinate(gens, columns):
    """The walk's points, lex-sorted, listed a coordinate at a time.

    m is an lcm of generators iff the generators dividing it attain each
    of its coordinates: m_j is the x_j exponent of a witness, a
    generator that divides m, for each j.  So the loops run m0, m1 and
    m2 up the keys of the upto columns and keep, for each fixed
    coordinate, its witnesses among the generators that divide the
    partial point; a value with no divisor or no witness is skipped.
    The below sets only grow with a coordinate, and the smallest value
    of a coordinate not yet fixed is 0, so once the fixed below sets
    meet those at 0 every larger value is a cone as well and the loop
    breaks.  m3 must reach the x4
    exponent of some witness of each fixed coordinate; the bits run in
    x4 order, so the lowest bit of each witness set carries its least
    exponent, and the highest of those bits is the floor.  m3 then runs
    over the x4 exponents of the generators dividing (m0, m1, m2), each
    such generator a witness of m3, from the floor up, one exponent at a
    time, until m is a cone.  The points come out lex-sorted, the unit
    first: in the unit ideal it is a cone, and otherwise no generator
    divides it, so the loops never reach it.
    """
    order, (le0, le1, le2, le3), (lt0, lt1, lt2, lt3) = columns
    # (v, upto, below, the generators with x_j == v): below[j][0] holds
    # those at 0, and above 0 they are upto minus below
    col1 = [(v, up, lt1[v], up ^ lt1[v] if v else up) for v, up in le1.items()]
    col2 = [(v, up, lt2[v], up ^ lt2[v] if v else up) for v, up in le2.items()]
    zero3 = lt3[0]
    zero23 = lt2[0] & zero3
    zero123 = lt1[0] & zero23
    points = [UNIT]
    emit = points.append
    for m0 in le0:
        below0 = lt0[m0]
        if below0 & zero123:
            break
        divides0 = le0[m0]
        witness0 = divides0 ^ below0 if m0 else below0
        if not witness0:
            continue
        for m1, upto1, below1, equal1 in col1:
            below01 = below0 & below1
            if below01 & zero23:
                break
            divides01 = divides0 & upto1
            witness01 = witness0 & upto1
            witness1 = divides01 & equal1
            if not (witness01 and witness1):
                continue
            for m2, upto2, below2, equal2 in col2:
                below012 = below01 & below2
                if below012 & zero3:
                    break
                ds = divides01 & upto2
                w0 = witness01 & upto2
                w1 = witness1 & upto2
                w2 = ds & equal2
                if not (w0 and w1 and w2):
                    continue
                floor = max(w0 & -w0, w1 & -w1, w2 & -w2)
                ds &= -floor
                while ds:
                    m3 = order[(ds & -ds).bit_length() - 1][3]
                    ds &= ~le3[m3]
                    if below012 & lt3[m3]:
                        break
                    emit((m0, m1, m2, m3))
    return points


class Walk(tuple):
    """The walked points, a lex-sorted tuple; enumerate_multidegrees sets
    .columns to the generator_columns it tested them on."""


@lru_cache(maxsize=1)
def enumerate_multidegrees(ideal, cap=DEFAULT_GEN_CAP):
    """The unit and the lcm-lattice points that are not cones, as a Walk.

    An lcm m of generators is a cone when x^(m - supp m) lies in the
    ideal: some generator h has h <= m - supp m, i.e. h divides m and
    lies strictly below it in every variable of its support.  The upper
    Koszul complex at a cone is the full simplex on supp(m), which is
    acyclic, so no Betti number sits there; the formula route keys such
    a point to the full family of twin masks, whose row is zero too.

    The points are listed on the generator columns built here: by the
    pairwise loop below COORDINATE_FROM generators and by the coordinate
    loop from there on (see the module docstring).  The unit is always
    returned: in the unit ideal it is the one lattice point and, though
    a cone, carries the row (1, 1, 0, 0, 0).  The result carries the
    columns, so the formula route keys the points and finds the
    dominant quadruples on them without building its own.  The cap
    guards the worst case, where every subset has its own lcm.  Both
    routes walk first, so this one cap check makes them refuse the same
    ideals.

    The result for the most recent (ideal, cap) is memoized (one entry),
    so `verify`'s formula pass and its four oracle passes share one walk.
    The cap is part of the key, so a call with a lower cap checks it
    again; an exception is never cached.
    """
    gens = ideal.gens
    if len(gens) > cap:
        raise GeneratorCapExceeded(f"{len(gens)} generators exceed the cap of {cap}")
    columns = generator_columns(gens)
    loop = _coordinate if len(gens) >= COORDINATE_FROM else _pairwise
    walk = Walk(loop(gens, columns))
    walk.columns = columns
    return walk

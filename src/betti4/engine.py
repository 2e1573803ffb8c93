"""Total and multigraded Betti numbers from the closed formulas.

Every Betti number comes from a key table: the row beta0..beta4 at a
multidegree m depends only on the upward closure of its twin masks and
on the support of m, and the 168 possible closures are tabulated at
import, beta2 and beta3 from the shape weights, each checked against
its atlas class.  full_table walks the lcm lattice, keys each point with
bit operations, looks its row up and sums the rows.  The dominant
quadruples of generators are the paper's independent beta4 route and
the runtime cross-check of the table's beta4 column; the Euler relation
gives a second route to beta3.
"""

from bisect import bisect_left
from itertools import accumulate
from operator import itemgetter

from .atlas import ENTRIES, LABELED_CLASSES
from .errors import InternalInconsistency, InvariantViolation, NegativeBetti
from .multidegrees import DEFAULT_GEN_CAP, enumerate_multidegrees
from .squarefree import SquarefreeIdeal, mask_string, shape_descriptor
from .tables import BettiTable
from .values import Value, set_field


class DominantQuadrupleClass(Value):
    """4-element dominant subsets whose lcm no generator strongly divides.

    quadruples holds each one lex-sorted, all in lex order; lcms holds
    their distinct lcms, lex-sorted.
    """

    __slots__ = ("quadruples", "lcms")

    def __init__(self, quadruples, lcms):
        for quad in quadruples:
            if len(quad) != 4:
                raise InvariantViolation(f"a dominant quadruple has {len(quad)} members: {quad}")
        set_field(self, "quadruples", quadruples)
        set_field(self, "lcms", lcms)


def dominant_quadruples(ideal):
    """Collect the quadruples behind the fourth Betti number.

    In a dominant quadruple every member is the unique column maximum of
    one variable, so the quadruple has exactly one assignment a -> x1,
    b -> x2, c -> x3, d -> x4 and its lcm is m = (a0, b1, c2, d3).  The
    loops build only such assignments: each later member lies below the
    earlier ones in their variables and above them in its own.  Every
    exponent of m is positive, so g strongly divides m iff g < m in all
    four variables; those g are the members of the list d is drawn from
    whose x4 exponent is below d3.  So m survives iff d3 is the least x4
    exponent on that list, and every d attaining it shares the same m.
    The lists for all c of one (a, b) are prefixes of one list ordered by
    x3, so d3 is read from its running minima of x4.
    """
    gens = ideal.gens
    quads = []
    lcms = set()
    for a in gens:
        a0, a1, a2, a3 = a
        below_a = [g for g in gens if g[0] < a0]
        for b in below_a:
            b1 = b[1]
            if b1 <= a1:
                continue
            # c and d need not exceed a in x2, so filter below_a, not b's candidates
            below_ab = [g for g in below_a if g[1] < b1]
            c_floor = max(a2, b[2])
            cs = [c for c in below_ab if c[2] > c_floor]
            if not cs:
                continue
            d_floor = max(a3, b[3])
            # d's list for c is the prefix of below_ab, ordered by x3, with x3 < c2
            below_ab.sort(key=itemgetter(2))
            x3s = [g[2] for g in below_ab]
            lows = list(accumulate([g[3] for g in below_ab], min))
            for c in cs:
                c2 = c[2]
                k = bisect_left(x3s, c2)
                if not k:
                    continue
                d3 = lows[k - 1]
                if d3 <= d_floor or d3 <= c[3]:
                    continue
                lcms.add((a0, b1, c2, d3))
                for d in below_ab[:k]:
                    if d[3] == d3:
                        quads.append(tuple(sorted((a, b, c, d))))
    quads.sort()
    return DominantQuadrupleClass(tuple(quads), tuple(sorted(lcms)))


def betti4(ideal):
    """Fourth Betti number: distinct lcms of the surviving dominant quadruples."""
    return len(dominant_quadruples(ideal).lcms)


def _shape_weights(sq):
    """(beta2, beta3) weight of one multidegree's squarefree reduction.

    The caller has already checked that the reduction's lcm fills the
    whole support of the multidegree; shapes not listed weigh nothing.
    """
    count, degrees, p, _ = shape_descriptor(sq)
    b2 = b3 = 0
    if count == 2:
        b2 = 1
    elif count == 3:
        if p == 0:
            b3 = 1
        elif p == 2:
            b2 = 1
        elif p == 3:
            b2 = 2
    elif count == 4:
        if degrees == (2, 2, 2, 2):
            b3 = 1
        elif degrees == (1, 2, 2, 2):
            b3 = 2
        elif degrees == (2, 2, 2, 3):
            b2 = 1
            b3 = 1
        elif degrees == (3, 3, 3, 3):
            b2 = 3
    elif count == 5:
        b3 = 2
    elif count == 6:
        b3 = 3
    return b2, b3


# UP[mask] is the 16-bit set of masks that contain mask: bit s is set iff
# s & mask == mask.  OR-ing UP over a family of masks gives its upward
# closure, which is the same for a family and for its minimal members.
UP = tuple(sum(1 << s for s in range(16) if s & mask == mask) for mask in range(16))


def upward_closure(masks):
    """16-bit set of every mask containing one of the given masks."""
    up = 0
    for mask in masks:
        up |= UP[mask]
    return up


# The closure of the four singleton masks (0xFFFE): at support 1111 its upper
# Koszul complex is the hollow tetrahedron (atlas class 5), the only complex
# on four vertices with reduced H_2, so the only family with a beta4.
HOLLOW = upward_closure((1, 2, 4, 8))


def _build_key_table(classes, entries):
    """Map each upward-closed family of masks to (support, row).

    classes maps labeled squarefree antichains (sorted mask tuples) to
    canonical forms and entries maps class ids to atlas entries.  row is
    the Betti row beta0..beta4 at a multidegree m whose support is the
    family's support.  beta2 and beta3 are the shape weights and must
    equal the row of the atlas class; beta0 = 1 iff the support is empty
    (m = 1), beta1 = 1 iff the antichain is one mask (m is a generator)
    and beta4 = 1 iff the family is the hollow one.  The empty family (no
    generator divides m = 1) has the row of the zero ideal.
    """
    table = {0: (0, (1, 0, 0, 0, 0))}
    for gens, form in classes.items():
        sq = SquarefreeIdeal(gens)
        weights = _shape_weights(sq)
        entry = entries[form.class_id]
        if weights != (entry.beta2, entry.beta3):
            raise InternalInconsistency(
                f"shape weights give {weights} but atlas class {form.class_id} gives "
                f"({entry.beta2}, {entry.beta3}) for {[mask_string(g) for g in gens]}"
            )
        up = upward_closure(gens)
        table[up] = (sq.support, (int(not sq.support), int(len(gens) == 1), *weights,
                                  int(up == HOLLOW)))
    if len(table) != 168:
        raise InternalInconsistency(f"{len(table)} upward-closed families tabulated, expected 168")
    return table


KEY_TABLE = _build_key_table(LABELED_CLASSES, ENTRIES)

# The nonzero rows of KEY_TABLE keyed on up | support << 16, so that one
# lookup also checks that the family's support fills the support of m.
NONZERO_ROWS = {up | support << 16: row for up, (support, row) in KEY_TABLE.items() if any(row)}


def key_rows(gens, degrees):
    """{m: row} for every multidegree m in degrees with a nonzero row.

    up is the upward closure of the twin masks of the generators that
    divide m: the twin mask of g has bit j set iff g_j == m_j > 0.  The
    row is the key table's for up if that family's support is supp(m),
    else zero.  A dividing generator with an empty twin mask makes up
    all 16 masks, of empty support, so the scan stops there; such an m
    has the zero row unless m = 1.
    """
    full = UP[0]
    rows = {}
    for m in degrees:
        m0, m1, m2, m3 = m
        up = 0
        for g0, g1, g2, g3 in gens:
            if g0 <= m0 and g1 <= m1 and g2 <= m2 and g3 <= m3:
                mask = ((g0 == m0 > 0) | (g1 == m1 > 0) << 1 | (g2 == m2 > 0) << 2
                        | (g3 == m3 > 0) << 3)
                if not mask:
                    # UP[0] holds every mask, so no later generator can add one
                    up = full
                    break
                up |= UP[mask]
        row = NONZERO_ROWS.get(up | (m0 > 0) << 16 | (m1 > 0) << 17 | (m2 > 0) << 18
                               | (m3 > 0) << 19)
        if row:
            rows[m] = row
    return rows


def betti2_formula(ideal, cap=DEFAULT_GEN_CAP):
    """Second Betti number: the beta2 column of the key-table rows."""
    return full_table(ideal, cap=cap).betti[2]


def betti3_formula(ideal, cap=DEFAULT_GEN_CAP):
    """Third Betti number: the beta3 column of the key-table rows."""
    return full_table(ideal, cap=cap).betti[3]


def betti3_euler(ideal, cap=DEFAULT_GEN_CAP):
    """Third Betti number from the Euler characteristic of the resolution.

    beta2 and beta4 are read from one full_table, whose beta4 column is
    already checked against the dominant quadruples' lcms.  The walk
    comes first, as on the other routes, so a cap the ideal exceeds
    raises GeneratorCapExceeded even for the zero ideal.
    """
    betti = full_table(ideal, cap=cap).betti
    if ideal.is_zero:
        raise ValueError("the Euler route needs at least one generator")
    value = 1 + betti[2] + betti[4] - len(ideal.gens)
    if value < 0:
        raise NegativeBetti(f"beta3 = {value} for generators {ideal.gens}")
    return value


def full_table(ideal, want_multigraded=False, cap=DEFAULT_GEN_CAP):
    """Betti numbers beta0..beta4 as column sums of key-table rows.

    Every row of the optional multigraded map is a key-table row.  The
    totals are cross-checked against the generators (beta1 = q), the
    Euler characteristic (0, or 1 for the zero ideal) and the paper's
    independent beta4 route: the rows with a beta4 must sit exactly at
    the lcms of the dominant quadruples.
    """
    rows = key_rows(ideal.gens, enumerate_multidegrees(ideal, cap))
    table = BettiTable.from_rows(rows, want_multigraded)
    # distinct lcms, as many as the beta4 column's sum and each on a row
    # with a beta4, are exactly the multidegrees with beta4 = 1
    lcms = dominant_quadruples(ideal).lcms
    if (table.betti[1] != len(ideal.gens) or table.euler != ideal.is_zero
            or len(lcms) != table.betti[4] or not all(m in rows and rows[m][4] for m in lcms)):
        raise InternalInconsistency(
            f"key-table totals {table.betti} break beta1 = q, the Euler relation or the "
            f"beta4 degrees of the dominant quadruples for {ideal.gens}"
        )
    return table


def pd_two_condition(ideal):
    """True iff one generator divides the lcm of every pair of generators.

    When true the projective dimension is exactly 2 (so beta3 and beta4
    vanish); the converse fails.  The predicate concerns ideals with at
    least two generators; smaller ones report False.

    c divides lcm(a, b) for every pair of the others iff, in each
    variable, at most one other generator has a smaller exponent than c,
    i.e. c_j is at most the second-smallest x_j exponent of all the
    generators (repeats counted).
    """
    gens = ideal.gens
    if len(gens) < 2:
        return False
    s0, s1, s2, s3 = (sorted(column)[1] for column in zip(*gens))
    return any(c0 <= s0 and c1 <= s1 and c2 <= s2 and c3 <= s3 for c0, c1, c2, c3 in gens)

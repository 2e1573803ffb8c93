"""Total and multigraded Betti numbers from the closed formulas.

Every Betti number comes from a key table: the row beta0..beta4 at a
multidegree m depends only on the upward closure of its twin masks and
on the support of m, and the 168 possible closures are tabulated at
import, beta2 and beta3 from the shape weights, each checked against
its atlas class.  full_table keys each point of the lattice walk (the
unit and the lcm-lattice points that are not cones) with a fixed number
of bit operations on the bitset generator columns that the walk built
and tested its points on, looks its row up and sums the rows.  The
distinct lcms of the dominant generator quadruples, found on the same
columns, are the paper's independent beta4 route and the runtime
cross-check of the table's beta4 column.
"""

from .atlas import ENTRIES, LABELED_CLASSES
from .errors import InternalInconsistency
from .multidegrees import DEFAULT_GEN_CAP, enumerate_multidegrees, generator_columns
from .squarefree import SquarefreeIdeal, mask_string, shape_descriptor
from .tables import BettiTable


def dominant_quadruples(ideal, columns=None):
    """The lcms behind the fourth Betti number, distinct and lex-sorted.

    A dominant quadruple of generators survives when no generator
    strongly divides its lcm, and beta4 counts the distinct lcms of the
    survivors.  In a dominant quadruple every member is the unique
    column maximum of one variable, so the quadruple has exactly one
    assignment a -> x1, b -> x2, c -> x3, d -> x4 and its lcm is
    m = (a0, b1, c2, d3).  The loops build only such assignments: each
    later member lies below the earlier ones in their variables and
    above them in its own, so each candidate set is an AND of
    generator_columns entries (below[j][v] at positive v, and the
    complement of upto[j][v]), walked lowest bit first.  columns, if
    given, must be generator_columns(ideal.gens), as full_table passes
    them from the walk; they are built here otherwise.  Every exponent
    of m is positive, so g strongly divides m iff g < m in all four
    variables; those g are the d candidates whose x4 exponent is below
    d3.  So m survives iff d3 is the least x4 exponent among the
    candidates, and every d attaining it gives the same m, so only that
    least exponent is read.  The bits run in x4 order, so the lowest bit
    of the candidate set carries it.  Fewer than four generators have
    no quadruple.

    A ceiling on d3 prunes the c loop.  For a pair (a, b), with below_ab
    the generators below a in x1 and below b in x2, every c has c2 above
    c_floor = max(a2, b2), so each d candidate set below_ab & below[2][c2]
    contains upto_c = below_ab & upto[2][c_floor], and d3 is at most the
    least x4 exponent in upto_c, the ceiling.  A lcm needs
    d3 > max(a3, b3) and d3 > c3, so no c survives when the ceiling is at
    most max(a3, b3), and since the c candidates run in x4 order the loop
    stops at the first c with c3 at the ceiling or above.  An empty
    upto_c reads order[-1], the largest x4 exponent, which bounds every
    d3 as well.
    """
    gens = ideal.gens
    if len(gens) < 4:
        return ()
    order, (le0, le1, le2, _), (lt0, lt1, lt2, _) = columns or generator_columns(gens)
    lcms = set()
    # ~le_j[v] holds the generators with x_j > v and lt_j[v] those with
    # x_j < v; v is a generator exponent throughout, and positive
    # wherever lt_j is read
    for a in order:
        a0, a1, a2, a3 = a
        if not a0:
            continue
        below_a = lt0[a0]
        bs = below_a & ~le1[a1]
        while bs:
            low = bs & -bs
            bs ^= low
            b = order[low.bit_length() - 1]
            b1 = b[1]
            # c and d need not exceed a in x2, so start from below_a, not bs
            below_ab = below_a & lt1[b1]
            c_floor = a2 if a2 > b[2] else b[2]
            d_floor = a3 if a3 > b[3] else b[3]
            upto_c = below_ab & le2[c_floor]
            ceiling = order[(upto_c & -upto_c).bit_length() - 1][3]
            if ceiling <= d_floor:
                continue
            cs = below_ab & ~le2[c_floor]
            while cs:
                low = cs & -cs
                cs ^= low
                c = order[low.bit_length() - 1]
                c3 = c[3]
                if c3 >= ceiling:
                    break
                c2 = c[2]
                ds = below_ab & lt2[c2]
                if not ds:
                    continue
                d3 = order[(ds & -ds).bit_length() - 1][3]
                if d3 > d_floor and d3 > c3:
                    lcms.add((a0, b1, c2, d3))
    return tuple(sorted(lcms))


def _shape_weights(sq):
    """(beta2, beta3) weight of one multidegree's squarefree reduction.

    The caller has already checked that the reduction's lcm fills the
    whole support of the multidegree; shapes not listed weigh nothing.
    """
    count, degrees, p = shape_descriptor(sq)
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


def _rows_on_columns(columns, degrees):
    """{m: row} for every multidegree m in degrees with a nonzero row.

    columns is generator_columns(gens), which covers every coordinate
    of the lcm lattice.  up is the upward closure of the twin masks of
    the generators that divide m: the twin mask of g has bit j set iff
    g_j == m_j > 0.  The row is the key table's for up if that family's
    support is supp(m), else zero.  Each m costs the same few bit
    operations, however many generators there are: four ANDs give the
    set d of generators dividing m and four more the sets c_j of those
    outside E_j, the generators with g_j == m_j > 0.  A g in d has
    g_j <= m_j, so it lies outside E_j iff it is in below[j][m_j]: with
    x_j < m_j if m_j > 0, and with x_j == 0 = m_j, which every g in d
    has, if m_j = 0.  Bit s of up is set iff some g in d has its mask
    inside s, i.e. lies outside E_j for every variable j missing from
    s.  Bit 0 (the empty mask) is set iff some g in d lies outside
    every E_j, i.e. iff m is a cone; then up holds all 16 masks, of
    empty support, so m has the zero row unless m = 1 (the unit ideal).
    """
    _, (le0, le1, le2, le3), (lt0, lt1, lt2, lt3) = columns
    get = NONZERO_ROWS.get
    rows = {}
    for m in degrees:
        m0, m1, m2, m3 = m
        d = le0[m0] & le1[m1] & le2[m2] & le3[m3]
        # c_t, for a set t of variables, is d minus E_j for each j in t:
        # bit 15 - t of up is set iff c_t is nonempty
        c0 = d & lt0[m0]
        c1 = d & lt1[m1]
        c2 = d & lt2[m2]
        c3 = d & lt3[m3]
        c01 = c0 & c1
        c23 = c2 & c3
        up = ((d and 0x8000) | (c0 and 0x4000) | (c1 and 0x2000) | (c2 and 0x0800)
              | (c3 and 0x0080) | (c0 & c2 and 0x0400) | (c0 & c3 and 0x0040)
              | (c1 & c2 and 0x0200) | (c1 & c3 and 0x0020) | (c01 & c23 and 0x0001))
        # every triple contains {0, 1} or {2, 3}
        if c01:
            up |= 0x1000 | (c01 & c2 and 0x0100) | (c01 & c3 and 0x0010)
        if c23:
            up |= 0x0008 | (c0 & c23 and 0x0004) | (c1 & c23 and 0x0002)
        row = get(up | (m0 and 0x10000) | (m1 and 0x20000) | (m2 and 0x40000) | (m3 and 0x80000))
        if row:
            rows[m] = row
    return rows


def full_table(ideal, want_multigraded=False, cap=DEFAULT_GEN_CAP):
    """Betti numbers beta0..beta4 as column sums of key-table rows.

    The rows are read at the points enumerate_multidegrees returns: the
    unit and the lcm-lattice points that are not cones.  A cone keys to
    the full family of twin masks, whose row is zero, so the points left
    out carry nothing.  The walk returns the generator columns it tested
    its points on, and both the keying and the dominant quadruples read
    those, so the columns are built once per ideal.  Every row of the
    optional multigraded map is a key-table row.  The totals are
    cross-checked against the generators (beta1 = q), the Euler
    characteristic (0, or 1 for the zero ideal) and the paper's
    independent beta4 route: the rows with a beta4 must sit exactly at
    the lcms of the dominant quadruples.  Together the first two give
    beta3 = 1 + beta2 + beta4 - q for every ideal with a generator.
    """
    degrees = enumerate_multidegrees(ideal, cap)
    # keyed by the generators' exponents and 0, the columns cover every lcm
    rows = _rows_on_columns(degrees.columns, degrees)
    table = BettiTable.from_rows(rows, want_multigraded)
    # distinct lcms, as many as the beta4 column's sum and each on a row
    # with a beta4, are exactly the multidegrees with beta4 = 1
    lcms = dominant_quadruples(ideal, degrees.columns)
    if (table.betti[1] != len(ideal.gens) or table.euler != ideal.is_zero
            or len(lcms) != table.betti[4]
            or lcms and not all(m in rows and rows[m][4] for m in lcms)):
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

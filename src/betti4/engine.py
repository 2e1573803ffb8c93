"""Total and multigraded Betti numbers from the closed formulas.

Every Betti number comes from a key table: the row beta0..beta4 at a
multidegree m depends only on the upward closure of its twin masks and
on the support of m, and the 168 possible closures are tabulated at
import, beta2 and beta3 from the shape weights, each checked against
its atlas class.  full_table keys each point of the lattice walk (the
unit and the lcm-lattice points that are not cones) with a fixed number
of bit operations on the bitset generator columns the walk runs on,
looks its row up and sums the rows.  The distinct lcms of the dominant
generator quadruples, found on the same columns, are the paper's
independent beta4 route and the runtime cross-check of the table's
beta4 column.
"""

from .atlas import LABELED_CLASSES, lookup_multigraded
from .errors import InternalInconsistency
from .monomials import UNIT
from .multidegrees import DEFAULT_GEN_CAP, check_cap, enumerate_multidegrees, generator_columns
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


def _build_key_table(classes):
    """Map each upward-closed family of masks to (support, row).

    classes maps labeled squarefree antichains (sorted mask tuples) to
    class ids.  row is the Betti row beta0..beta4 at a multidegree m
    whose support is the family's support.  beta2 and beta3 are the
    shape weights and must equal the atlas row, looked up at the
    family's support; beta0 = 1 iff the support is empty (m = 1),
    beta1 = 1 iff the antichain is one mask (m is a generator) and
    beta4 = 1 iff the family is the hollow one.  The empty family (no
    generator divides m = 1) has the row of the zero ideal.
    """
    table = {0: (0, (1, 0, 0, 0, 0))}
    for gens, cid in classes.items():
        sq = SquarefreeIdeal(gens)
        weights = _shape_weights(sq)
        tabulated = lookup_multigraded(sq, sq.support)
        if weights != tabulated:
            raise InternalInconsistency(
                f"shape weights give {weights} but atlas class {cid} gives "
                f"{tabulated} for {[mask_string(g) for g in gens]}"
            )
        up = upward_closure(gens)
        table[up] = (sq.support, (int(not sq.support), int(len(gens) == 1), *weights,
                                  int(up == HOLLOW)))
    if len(table) != 168:
        raise InternalInconsistency(f"{len(table)} upward-closed families tabulated, expected 168")
    return table


KEY_TABLE = _build_key_table(LABELED_CLASSES)

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


# the generator count from which the keyed coordinate walk is faster than
# the pairwise walk plus _rows_on_columns; CHANGES.md has the table of
# both by q on random, same-degree and generic ideals
COORDINATE_FROM = 10


def _coordinate_rows(columns):
    """{m: row} for every lcm-lattice point m with a nonzero row, listed
    a coordinate at a time and keyed as it is reached.

    m is an lcm of generators iff the generators dividing it attain each
    of its coordinates: m_j is the x_j exponent of a witness, a
    generator that divides m, for each j.  So the loops run m0, m1 and
    m2 up the keys of the upto columns and keep, for each fixed
    coordinate, its witnesses among the generators that divide the
    partial point; a value with no divisor or no witness is skipped.
    The below sets only grow with a coordinate, and the smallest value
    of a coordinate not yet fixed is 0, so once the fixed below sets
    meet those at 0 every larger value is a cone as well and the loop
    breaks.  m3 must reach the x4 exponent of some witness of each
    fixed coordinate; the bits run in x4 order, so the lowest bit of
    each witness set carries its least exponent, and the highest of
    those bits is the floor.  m3 then runs over the x4 exponents of the
    generators dividing (m0, m1, m2), each such generator a witness of
    m3, from the floor up, one exponent at a time, until m is a cone.

    Each point is keyed as in _rows_on_columns, on sets that the prefix
    already holds: with d012 the generators dividing (m0, m1, m2) in
    those variables, c_j = d012 & below[j][m_j] & upto[3][m3] for
    j < 3 and c3 = d012 & below[3][m3].  A point the loops reach has a
    divisor and is no cone, so bits 15 and 0 of its key are known.  The
    unit is keyed on its own: in the unit ideal it is a cone, and
    otherwise no generator divides it, so the loops never reach it.
    """
    order, (le0, le1, le2, le3), (lt0, lt1, lt2, lt3) = columns
    get = NONZERO_ROWS.get
    rows = _rows_on_columns(columns, (UNIT,))
    # (v, upto, below, the generators with x_j == v): below[j][0] holds
    # those at 0, and above 0 they are upto minus below
    col1 = [(v, up, lt1[v], up ^ lt1[v] if v else up) for v, up in le1.items()]
    col2 = [(v, up, lt2[v], up ^ lt2[v] if v else up) for v, up in le2.items()]
    zero3 = lt3[0]
    zero23 = lt2[0] & zero3
    zero123 = lt1[0] & zero23
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
                d012 = divides01 & upto2
                w0 = witness01 & upto2
                w1 = witness1 & upto2
                w2 = d012 & equal2
                if not (w0 and w1 and w2):
                    continue
                floor = max(w0 & -w0, w1 & -w1, w2 & -w2)
                ds = d012 & -floor
                h0 = d012 & below0
                h1 = d012 & below1
                h2 = d012 & below2
                support = (m0 and 0x10000) | (m1 and 0x20000) | (m2 and 0x40000)
                while ds:
                    m3 = order[(ds & -ds).bit_length() - 1][3]
                    upto3 = le3[m3]
                    ds &= ~upto3
                    below3 = lt3[m3]
                    if below012 & below3:
                        break
                    c0 = h0 & upto3
                    c1 = h1 & upto3
                    c2 = h2 & upto3
                    c3 = d012 & below3
                    c01 = c0 & c1
                    c23 = c2 & c3
                    up = (0x8000 | (c0 and 0x4000) | (c1 and 0x2000) | (c2 and 0x0800)
                          | (c3 and 0x0080) | (c0 & c2 and 0x0400) | (c0 & c3 and 0x0040)
                          | (c1 & c2 and 0x0200) | (c1 & c3 and 0x0020))
                    if c01:
                        up |= 0x1000 | (c01 & c2 and 0x0100) | (c01 & c3 and 0x0010)
                    if c23:
                        up |= 0x0008 | (c0 & c23 and 0x0004) | (c1 & c23 and 0x0002)
                    row = get(up | support | (m3 and 0x80000))
                    if row:
                        rows[m0, m1, m2, m3] = row
    return rows


def full_table(ideal, want_multigraded=False, cap=DEFAULT_GEN_CAP):
    """Betti numbers beta0..beta4 as column sums of key-table rows.

    The rows are read at the unit and the lcm-lattice points that are
    not cones.  A cone keys to the full family of twin masks, whose row
    is zero, so the points left out carry nothing.  Below
    COORDINATE_FROM generators they are the points enumerate_multidegrees
    returns, which the oracle's walk shares, keyed by _rows_on_columns;
    from there on _coordinate_rows walks and keys them in one pass, so
    verify checks that walk against the oracle's.  Either way the
    refusal over the cap is check_cap's, and the keying and the dominant
    quadruples read one set of generator columns, built once per ideal.
    Every row of the
    optional multigraded map is a key-table row.  The totals are
    cross-checked against the generators (beta1 = q), the Euler
    characteristic (0, or 1 for the zero ideal) and the paper's
    independent beta4 route: the rows with a beta4 must sit exactly at
    the lcms of the dominant quadruples.  Together the first two give
    beta3 = 1 + beta2 + beta4 - q for every ideal with a generator.
    """
    gens = ideal.gens
    if len(gens) >= COORDINATE_FROM:
        check_cap(gens, cap)
        columns = generator_columns(gens)
        rows = _coordinate_rows(columns)
    else:
        degrees = enumerate_multidegrees(ideal, cap)
        columns = degrees.columns
        rows = _rows_on_columns(columns, degrees)
    table = BettiTable.from_rows(rows, want_multigraded)
    # distinct lcms, as many as the beta4 column's sum and each on a row
    # with a beta4, are exactly the multidegrees with beta4 = 1
    lcms = dominant_quadruples(ideal, columns)
    if (table.betti[1] != len(gens) or table.euler != ideal.is_zero
            or len(lcms) != table.betti[4]
            or lcms and not all(m in rows and rows[m][4] for m in lcms)):
        raise InternalInconsistency(
            f"key-table totals {table.betti} break beta1 = q, the Euler relation or the "
            f"beta4 degrees of the dominant quadruples for {gens}"
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

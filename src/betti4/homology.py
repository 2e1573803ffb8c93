"""Exact ground truth: reduced simplicial homology of Koszul subcomplexes.

For a degree b, the faces are the vertex subsets t of {1..4} with
x^(b-t) still inside the ideal; the reduced homology of that complex in
dimension i-2 is the multigraded Betti number in homological degree i.
The boundary maps are read from one table, FACETS, of the signed facets
of every face of the 3-simplex, and each face set is eliminated once per
field.  Everything here is exact integer or mod-p arithmetic; no formula
from the rest of the package is consulted, which is what makes this
module usable as an oracle for all of them.
"""

from functools import lru_cache

from .errors import InternalInconsistency, InvariantViolation
from .multidegrees import DEFAULT_GEN_CAP, enumerate_multidegrees
from .tables import BettiTable
from .values import Value, set_field

SUPPORTED_CHARACTERISTICS = (0, 2, 3, 5)


class FieldSpec(Value):
    """Base field: the rationals (characteristic 0) or F_p for small p.

    Four vertices admit no torsion (the smallest case, RP^2, needs
    six), so homology on them is the same over every field; the primes
    2, 3 and 5 witness that.
    """

    __slots__ = ("characteristic",)

    def __init__(self, characteristic=0):
        # exactly an int: 2.0 and True compare equal to supported ones
        if type(characteristic) is not int or characteristic not in SUPPORTED_CHARACTERISTICS:
            raise ValueError(f"unsupported characteristic {characteristic}")
        set_field(self, "characteristic", characteristic)


RATIONALS = FieldSpec(0)
ALL_FIELDS = tuple(FieldSpec(c) for c in SUPPORTED_CHARACTERISTICS)


# WITH[i] is the 16-bit set of vertex sets that contain vertex i, and
# MISSES[a] the set of vertex sets t with t & a == 0.
WITH = tuple(sum(1 << t for t in range(16) if t >> i & 1) for i in range(4))
MISSES = tuple(sum(1 << t for t in range(16) if not t & a) for a in range(16))


class SimplicialComplex(Value):
    """Downward-closed family of subsets of {1..4}, as a 16-bit face set.

    Bit t of face_bits is set iff the vertex set t (a 4-bit mask) is a
    face.  The void complex (0, no faces at all) and the irrelevant
    complex (1, only the empty face) have different homology, so both
    are representable.
    """

    __slots__ = ("face_bits",)

    def __init__(self, face_bits):
        bits = face_bits
        # exactly an int (no bool or float), so the faces are bits
        if type(bits) is not int or not 0 <= bits < 1 << 16:
            raise InvariantViolation(f"face set {bits!r} is not a 16-bit set")
        # moving every face that contains vertex i down to the face
        # without i (bit t to bit t - 2^i) must land on faces again
        w0, w1, w2, w3 = WITH
        if ((bits & w0) >> 1 | (bits & w1) >> 2 | (bits & w2) >> 4 | (bits & w3) >> 8) & ~bits:
            raise InvariantViolation("face set must be downward closed")
        set_field(self, "face_bits", bits)


@lru_cache(maxsize=None)
def _interned_complex(face_bits):
    """The one SimplicialComplex for a face set.

    Keyed on the 16-bit set, so it holds at most the 168 complexes on
    four vertices; each is validated when first built, and a set the
    constructor rejects raises again on every call, never cached.
    """
    return SimplicialComplex(face_bits)


def koszul_complex(ideal, b):
    """Faces are the vertex masks t with b - t >= 0 and x^(b-t) in the ideal.

    A generator g divides x^(b-t) iff g divides b and g_j < b_j for every
    j in t, so the faces it contributes are the t missing the variables
    where g_j == b_j (b_j == 0 among them, which keeps b - t >= 0).
    Downward closure is automatic: shrinking t raises x^(b-t) to a
    multiple, which stays in the ideal.  The zero ideal gives the void
    complex.  Equal face sets give the identical, interned complex.
    """
    b0, b1, b2, b3 = b
    bits = 0
    for g0, g1, g2, g3 in ideal.gens:
        if g0 <= b0 and g1 <= b1 and g2 <= b2 and g3 <= b3:
            bits |= MISSES[(g0 == b0) | (g1 == b1) << 1 | (g2 == b2) << 2 | (g3 == b3) << 3]
    return _interned_complex(bits)


# FACETS[f] holds the facets of the face f (a 4-bit vertex set) with
# their signs in the boundary map: dropping the k-th vertex of f, in
# increasing order, gives the facet with sign (-1)^k.  FACES_BY_SIZE[n]
# lists the faces with n vertices.
FACETS = tuple(
    tuple((f & ~(1 << v), -1 if k % 2 else 1)
          for k, v in enumerate([v for v in range(4) if f >> v & 1]))
    for f in range(16)
)
FACES_BY_SIZE = tuple(tuple(f for f in range(16) if f.bit_count() == n) for n in range(5))


def _rank(rows, char):
    """Rank over Q (char 0) or F_char of sparse rows of (column, entry) pairs.

    Each row is reduced against the pivot that holds its largest column
    until it is zero or leads a column no pivot holds.  A reduction is
    lead * row - entry * pivot, so every value stays an exact integer;
    over a prime field every entry is reduced mod char and zeros dropped.
    """
    pivots = {}
    for row in rows:
        row = {c: x % char for c, x in row if x % char} if char else dict(row)
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            a, b = pivot[lead], row[lead]
            merged = {}
            for c in row.keys() | pivot.keys():
                x = a * row.get(c, 0) - b * pivot.get(c, 0)
                if char:
                    x %= char
                if x:
                    merged[c] = x
            row = merged
    return len(pivots)


# the profile of a complex with no reduced homology at all
_ACYCLIC = (0, 0, 0, 0, 0)


@lru_cache(maxsize=None)
def _homology_profile(face_bits, char):
    """Reduced homology ranks in dimensions -1..3 for a complex fingerprint.

    Keyed on the 16-bit fingerprint so the at most 168 downward-closed
    families on four vertices are each eliminated once per field.  The
    boundary map from the faces with n vertices has the rows FACETS[f]
    of those faces f; a downward-closed set holds every facet of its
    faces, so the rows need no column selected.
    """
    counts = [face_bits & 1]
    # boundary ranks indexed by the domain's vertex count 0..5; the maps
    # off both ends are zero
    ranks = [0]
    for faces in FACES_BY_SIZE[1:]:
        rows = [FACETS[f] for f in faces if face_bits >> f & 1]
        counts.append(len(rows))
        ranks.append(_rank(rows, char))
    ranks.append(0)
    profile = tuple(counts[n] - ranks[n] - ranks[n + 1] for n in range(5))
    # four variables never leave homology at the top dimension
    if profile[4]:
        raise InternalInconsistency(f"face set {face_bits:#06x} has homology in dimension 3")
    return profile


# the most recent oracle pass: (walk, the face set at each of its points,
# the distinct face sets, their profiles, want_multigraded, table)
_last = None


def oracle_betti(ideal, field=RATIONALS, cap=DEFAULT_GEN_CAP, want_multigraded=False):
    """Betti table of S/ideal by summing Koszul homology over the multidegrees.

    The multidegrees are those enumerate_multidegrees returns: the unit
    and every lcm-lattice point b with x^(b - supp b) outside the ideal.
    At the other lattice points the complex is the full simplex on
    supp(b), which is acyclic, and off the lattice the homology vanishes
    too, so no Betti number is lost.  Each point reads its row from the
    homology profile of its face set; only the unit and the points with
    nonzero homology keep a row, and the totals are the column sums.
    The zero and unit ideals need no branch: their only point is the
    unit, whose complex gives (1,0,0,0,0) and (1,1,0,0,0).

    Only the homology depends on the field.  The lattice walk checks
    the cap on every call, as the formula route does, and is memoized
    for the most recent ideal; the Koszul face sets, their profiles and
    the table are memoized for the most recent walk, one entry in all,
    so calling this once per field builds the face sets once; an
    exception is never cached.  A call reads, in its own field, the
    profile of each distinct face set of the walk.  If every one equals
    the profile the previous call read on the same walk, the rows are
    equal point by point, so it returns the previous call's table, which
    its callers share and must not change.  A field whose profile
    differs on any face set gets rows of its own.
    """
    global _last
    char = field.characteristic
    degrees = enumerate_multidegrees(ideal, cap)
    last = _last
    # the memo holds its walk, so no other walk can take its identity, and
    # the walk memo returns one walk per equal (ideal, cap)
    hit = last and last[0] is degrees
    if hit:
        faces, distinct = last[1], last[2]
    else:
        # build both tuples at their exact size, from a list and a set:
        # tuple(<generator>) guesses a size and resizes, and with such
        # tuples kept and replaced per ideal, verify's peak RSS grows with
        # run length (28.4 against 25.5 MB after a 30 s bench run), where
        # exact sizes stay flat
        faces = tuple([koszul_complex(ideal, b).face_bits for b in degrees])
        distinct = tuple(set(faces))
    profiles = [_homology_profile(bits, char) for bits in distinct]
    if hit and last[3] == profiles and last[4] == want_multigraded:
        return last[5]
    profile_of = dict(zip(distinct, profiles))
    # the points are lex-sorted, so the unit comes first
    points = zip(degrees, faces)
    b, bits = next(points)
    h = profile_of[bits]
    rows = {b: (1, h[0], h[1], h[2], h[3])}
    for b, bits in points:
        h = profile_of[bits]
        if h != _ACYCLIC:
            rows[b] = (0, h[0], h[1], h[2], h[3])
    table = BettiTable.from_rows(rows, want_multigraded)
    _last = (degrees, faces, distinct, profiles, want_multigraded, table)
    return table

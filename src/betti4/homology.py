"""Exact ground truth: reduced simplicial homology of Koszul subcomplexes.

For a degree b, the faces are the vertex subsets t of {1..4} with
x^(b-t) still inside the ideal; the reduced homology of that complex in
dimension i-2 is the multigraded Betti number in homological degree i.
Everything here is exact integer or mod-p arithmetic; no formula from
the rest of the package is consulted, which is what makes this module
usable as an oracle for all of them.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import GeneratorCapExceeded, InvariantViolation
from .monomials import UNIT, divides
from .multidegrees import DEFAULT_GEN_CAP, enumerate_multidegrees
from .tables import BettiTable, projective_dimension

SUPPORTED_CHARACTERISTICS = (0, 2, 3, 5)


@dataclass(frozen=True)
class FieldSpec:
    """Base field: the rationals (characteristic 0) or F_p for small p.

    Primes 2 and 3 cover any torsion a complex on four vertices can
    have; 5 is kept as a margin witness.
    """

    characteristic: int = 0

    def __post_init__(self):
        if self.characteristic not in SUPPORTED_CHARACTERISTICS:
            raise ValueError(f"unsupported characteristic {self.characteristic}")


RATIONALS = FieldSpec(0)
ALL_FIELDS = tuple(FieldSpec(c) for c in SUPPORTED_CHARACTERISTICS)


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed family of subsets of {1..4}, stored as vertex masks.

    The void complex (no faces at all) and the irrelevant complex (only
    the empty face) are different objects with different homology, so
    both are representable.
    """

    faces: frozenset

    def __post_init__(self):
        for f in self.faces:
            if not 0 <= f < 16:
                raise InvariantViolation(f"bad face {f!r}")
            if not all(f & ~(1 << i) in self.faces for i in range(4) if f >> i & 1):
                raise InvariantViolation("face set must be downward closed")

    @property
    def face_bits(self):
        """16-bit fingerprint: bit t set iff vertex set t is a face."""
        bits = 0
        for f in self.faces:
            bits |= 1 << f
        return bits


def koszul_complex(ideal, b):
    """Faces are the vertex masks t with b - t >= 0 and x^(b-t) in the ideal.

    Downward closure is automatic: shrinking t raises x^(b-t) to a
    multiple, which stays in the ideal.  The zero ideal gives the void
    complex.
    """
    gens = ideal.gens
    faces = set()
    for t in range(16):
        shifted = (
            b[0] - (t & 1),
            b[1] - (t >> 1 & 1),
            b[2] - (t >> 2 & 1),
            b[3] - (t >> 3 & 1),
        )
        if min(shifted) < 0:
            continue
        if any(divides(g, shifted) for g in gens):
            faces.add(t)
    return SimplicialComplex(frozenset(faces))


def _matrix_rank(rows, char):
    """Rank of a small integer matrix over Q (char 0) or F_char.

    Plain Gaussian elimination with cross-multiplication instead of
    division, so every intermediate value is an exact integer; entries
    are reduced mod char when working over a prime field.
    """
    rows = [list(r) for r in rows]
    if char:
        rows = [[x % char for x in r] for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    for c in range(n):
        pivot = next((i for i in range(rank, m) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][c]
        for i in range(rank + 1, m):
            f = rows[i][c]
            if f:
                merged = [lead * a - f * b for a, b in zip(rows[i], rows[rank])]
                rows[i] = [x % char for x in merged] if char else merged
        rank += 1
    return rank


def _boundary_matrix(faces, d):
    """Signed incidence matrix of the boundary map from d-faces to (d-1)-faces."""
    domain = sorted(f for f in faces if f.bit_count() == d + 1)
    codomain = sorted(f for f in faces if f.bit_count() == d)
    index = {f: i for i, f in enumerate(codomain)}
    matrix = [[0] * len(domain) for _ in codomain]
    for j, f in enumerate(domain):
        vertices = [i for i in range(4) if f >> i & 1]
        for k, v in enumerate(vertices):
            matrix[index[f & ~(1 << v)]][j] = -1 if k % 2 else 1
    return matrix


@lru_cache(maxsize=None)
def _homology_profile(face_bits, char):
    """Reduced homology ranks in dimensions -1..3 for a complex fingerprint.

    Keyed on the 16-bit fingerprint so the at most 168 downward-closed
    families on four vertices are each eliminated once per field.
    """
    faces = [f for f in range(16) if face_bits >> f & 1]
    counts = [0] * 5
    for f in faces:
        counts[f.bit_count()] += 1
    # boundary ranks indexed by domain dimension -1..4; the maps off
    # both ends are zero
    ranks = [0] * 6
    for d in range(0, 4):
        ranks[d + 1] = _matrix_rank(_boundary_matrix(faces, d), char)
    profile = tuple(counts[d + 1] - ranks[d + 1] - ranks[d + 2] for d in range(-1, 4))
    # four variables never leave homology at the top dimension
    assert profile[4] == 0
    return profile


def reduced_homology_rank(complex_, dim, field=RATIONALS):
    """Dimension of reduced homology of the complex over the field."""
    assert -1 <= dim <= 3
    return _homology_profile(complex_.face_bits, field.characteristic)[dim + 1]


def multigraded_oracle(ideal, b, field=RATIONALS):
    """Graded Betti numbers (degrees 0..4) of S/ideal at one degree b.

    Degrees 1..4 come from homology in dimensions -1..2; degree 0 is 1
    at the constant degree by convention and 0 elsewhere.
    """
    profile = _homology_profile(koszul_complex(ideal, b).face_bits, field.characteristic)
    head = 1 if b == UNIT else 0
    return (head, profile[0], profile[1], profile[2], profile[3])


def oracle_betti(ideal, field=RATIONALS, cap=DEFAULT_GEN_CAP, want_multigraded=False):
    """Betti table of S/ideal by summing Koszul homology over all multidegrees."""
    if ideal.is_zero:
        table = (1, 0, 0, 0, 0)
        return BettiTable(table, 0, {UNIT: table} if want_multigraded else None)
    if len(ideal.gens) > cap:
        raise GeneratorCapExceeded(f"{len(ideal.gens)} generators exceed the cap of {cap}")
    totals = [0] * 5
    rows = {} if want_multigraded else None
    for b in enumerate_multidegrees(ideal, cap):
        row = multigraded_oracle(ideal, b, field)
        for i, value in enumerate(row):
            totals[i] += value
        if rows is not None and any(row):
            rows[b] = row
    betti = tuple(totals)
    return BettiTable(betti, projective_dimension(betti), rows)

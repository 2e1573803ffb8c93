"""Definition-level references for the paper's notions, for the tests.

The package computes lcm, divisibility, support masks, dominance,
semidominance and strong divisibility only where its walks and formulas
read them: written out in multidegrees' walk and twins.build_bundle, on
masks in squarefree.shape_descriptor and on bit columns in
engine.dominant_quadruples.  The versions here follow the definitions
word for word, on exponent tuples, so the tests can check the fast ones
against them.  homology_profile is the oracle's kernel as a dense
elimination: it builds each signed boundary matrix from the face set
alone, with no table of the package.  multigraded_oracle reads its
ranks through reduced_homology_rank, which reads homology_profile, so
it shares no code with the oracle's own profile path.  k_polynomial
and scarf_rows read the Hilbert series numerator and the rows of a
generic ideal with no lattice walk at all, and lcm_lattice_rows reads
every row off the lcm lattice with no Koszul complex and no walk.
"""

from functools import cache
from itertools import combinations

from betti4.homology import RATIONALS, koszul_complex
from betti4.monomials import NUM_VARS, UNIT, MonomialIdeal, minimalize


def lcm(a, b):
    """Least common multiple: componentwise max of exponent vectors."""
    return tuple(map(max, a, b))


def divides(a, b):
    """True iff a divides b, i.e. a_i <= b_i for every variable."""
    return all(x <= y for x, y in zip(a, b))


def support_mask(m):
    """4-bit mask with bit i set iff x_{i+1} has positive exponent."""
    return sum(1 << i for i in range(NUM_VARS) if m[i])


def lcm_all(monomials):
    """lcm of an iterable of monomials; the constant monomial if empty."""
    out = UNIT
    for m in monomials:
        out = lcm(out, m)
    return out


def lcm_lattice(ideal):
    """Every distinct lcm of a subset of the generators, the empty
    subset's 1 included, lex-sorted; cones are not left out."""
    points = {UNIT}
    for g in ideal.gens:
        points |= {lcm(p, g) for p in points}
    return tuple(sorted(points))


def strongly_divides(a, b):
    """True iff a_i < b_i for every variable that occurs in a.

    Stronger than plain divisibility on the support of a; the condition
    is vacuously true for the constant monomial.
    """
    return all(x == 0 or x < y for x, y in zip(a, b))


def dominant_members(gens):
    """The members of a generating set that dominate it.

    A monomial dominates the set when some variable's exponent in it
    strictly exceeds that variable's exponent in every other member,
    i.e. it is the unique column maximum for some variable.
    """
    gens = tuple(gens)
    if len(gens) <= 1:
        return gens
    out = set()
    for i in range(NUM_VARS):
        col = [g[i] for g in gens]
        top = max(col)
        if col.count(top) == 1:
            out.add(gens[col.index(top)])
    return tuple(sorted(out))


def dominant_generators(ideal):
    """The dominant generators of an ideal."""
    if not ideal.gens:
        raise ValueError("the zero ideal has no generators to classify")
    return dominant_members(ideal.gens)


def semidominance(ideal):
    """Number p of nondominant generators; p = 0 iff the ideal is dominant."""
    return len(ideal.gens) - len(dominant_generators(ideal))


def is_dominant(ideal):
    return semidominance(ideal) == 0


def permute_monomial(m, perm):
    """Relabel variables: new slot i takes the exponent of old slot perm[i]."""
    return (m[perm[0]], m[perm[1]], m[perm[2]], m[perm[3]])


def permute_ideal(ideal, perm):
    """Apply a variable permutation to every generator."""
    return MonomialIdeal(permute_monomial(g, perm) for g in ideal.gens)


def multigraded_oracle(ideal, b, char=RATIONALS):
    """Graded Betti numbers (degrees 0..4) of S/ideal at one degree b.

    Degrees 1..4 are the reduced homology ranks of the Koszul complex at
    b in dimensions -1..2; degree 0 is 1 at the constant degree by
    convention and 0 elsewhere.
    """
    faces = koszul_complex(ideal, b)
    head = 1 if b == UNIT else 0
    return (head, *(reduced_homology_rank(faces, dim, char) for dim in range(-1, 3)))


def reduced_homology_rank(face_bits, dim, char=RATIONALS):
    """Dimension of reduced homology over the field of the complex with
    the 16-bit face set face_bits, read from the dense elimination
    homology_profile."""
    if not -1 <= dim <= 3:
        raise ValueError(f"dimension {dim} is outside -1..3")
    return homology_profile(face_bits, char)[dim + 1]


def _coprime(gens):
    """True iff no two monomials share a variable."""
    seen = 0
    for g in gens:
        support = sum(1 << j for j in range(NUM_VARS) if g[j])
        if seen & support:
            return False
        seen |= support
    return True


def k_polynomial(gens):
    """K-polynomial of S/(gens), as {exponent: coefficient} with no zeros.

    The numerator of the multigraded Hilbert series, sum over m and i of
    (-1)^i beta_{i,m} x^m for every free resolution, found by Bigatti's
    pivot recursion (Bigatti 1997) with no resolution and no lcm
    lattice: the sequence 0 -> S/(I : p)(-p) -> S/I -> S/(I + (p)) -> 0
    gives K(S/I) = K(S/(I + (p))) + x^p K(S/(I : p)).  Pairwise coprime
    generators give the product of the 1 - x^g.  Otherwise the pivot is
    p = x_j^e, for the variable x_j that most generators other than
    pure powers use and the median x_j exponent e among those: I + (p)
    has fewer such generators and I : p the same number or fewer of
    lower total degree, so the recursion ends.
    """
    gens = minimalize(gens)
    if _coprime(gens):
        poly = {UNIT: 1}
        for g in gens:
            product = dict(poly)
            for m, c in poly.items():
                m = lcm(m, g)  # coprime, so the lcm is the product
                product[m] = product.get(m, 0) - c
            poly = product
        return {m: c for m, c in poly.items() if c}
    users = [sorted(g[j] for g in gens if g[j] and sum(map(bool, g)) > 1) for j in range(NUM_VARS)]
    j = max(range(NUM_VARS), key=lambda j: len(users[j]))
    pivot = tuple(users[j][len(users[j]) // 2] if i == j else 0 for i in range(NUM_VARS))
    poly = k_polynomial(gens + (pivot,))
    colon = (tuple(x - y if x > y else 0 for x, y in zip(g, pivot)) for g in gens)
    for m, c in k_polynomial(colon).items():
        m = tuple(x + y for x, y in zip(m, pivot))
        poly[m] = poly.get(m, 0) + c
    return {m: c for m, c in poly.items() if c}


def scarf_rows(gens):
    """Multigraded Betti rows of S/(gens) read off its Scarf complex.

    The lcm of every subset of at most five generators is counted, the
    empty subset's 1 included, and an lcm that exactly one subset has
    gets the unit row with its 1 in position |subset|.  Five suffice:
    in four variables every lcm is the lcm of at most four of the
    generators under it, so a subset of four or fewer shares its lcm
    with another one exactly when it shares it with one of at most
    five.  A lone lcm of five generators has no position and gets the
    zero row, which for the same reason never happens.  When no two
    generators share a positive exponent in one variable, the ideal is
    generic and these faces, the Scarf complex, form its minimal free
    resolution (Bayer, Peeva and Sturmfels 1998), so the rows are its
    multigraded Betti numbers.
    """
    counts = {}
    sizes = {}
    for k in range(6):
        for subset in combinations(gens, k):
            m = lcm_all(subset)
            counts[m] = counts.get(m, 0) + 1
            sizes[m] = k
    return {m: tuple(int(i == sizes[m]) for i in range(5)) for m, n in counts.items() if n == 1}


def lcm_lattice_rows(gens, char):
    """Multigraded Betti rows of S/(gens) over Q (char 0) or F_char, read
    off the lcm lattice of a proper nonzero ideal.

    Gasharov, Peeva and Welker (1999): for m != 1 in the lcm lattice L,
    beta_{i,m} is the reduced homology in dimension i - 2 of the order
    complex of the open interval (1, m) of L, whose faces are the
    chains of points strictly between 1 and m.  A generator has the
    empty interval, whose only face is the empty chain, so its row is
    (0, 1, 0, 0, 0).  Four variables give no beta_i past i = 4, so the
    chains of at most four points, dimension 3, are all that is built.
    The unit has the row (1, 0, 0, 0, 0), and only nonzero rows are
    kept, as both routes keep them.
    """
    points = lcm_lattice(MonomialIdeal(gens))
    rows = {UNIT: (1, 0, 0, 0, 0)}
    for m in points[1:]:
        inside = [p for p in points[1:] if p != m and divides(p, m)]
        # chains[k] holds the chains of k points, the faces of dimension
        # k - 1, each in lex order, which divisibility refines
        chains = [[()]]
        for _ in range(4):
            chains.append([c + (p,) for c in chains[-1] for p in inside
                           if not c or c[-1] != p and divides(c[-1], p)])
        # ranks[k] is the rank of the boundary from the chains of k points
        ranks = [0]
        for low, high in zip(chains, chains[1:]):
            index = {c: i for i, c in enumerate(low)}
            boundary = []
            for c in high:
                row = [0] * len(low)
                for k in range(len(c)):
                    row[index[c[:k] + c[k + 1:]]] = -1 if k % 2 else 1
                boundary.append(row)
            ranks.append(matrix_rank(boundary, char))
        row = (0, *(len(chains[d]) - ranks[d] - ranks[d + 1] for d in range(4)))
        if any(row):
            rows[m] = row
    return rows


def matrix_rank(rows, char):
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


def boundary_matrix(faces, d):
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


@cache
def homology_profile(face_bits, char):
    """Reduced homology ranks in dimensions -1..3 of a face set, from the
    dense boundary matrices over Q (char 0) or F_char."""
    faces = [f for f in range(16) if face_bits >> f & 1]
    counts = [sum(f.bit_count() == n for f in faces) for n in range(5)]
    ranks = [0, *(matrix_rank(boundary_matrix(faces, d), char) for d in range(4)), 0]
    return tuple(counts[n] - ranks[n] - ranks[n + 1] for n in range(5))

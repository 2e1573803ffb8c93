"""Monomials in four variables and minimally generated monomial ideals.

A monomial is a plain 4-tuple of non-negative exponents for x1..x4.
Plain tuples keep the subset walks in the rest of the package cheap.
This module holds the ideal type and its minimal generating set, which
the package computes in one place: a MonomialIdeal stores minimalize()
of whatever generators it is given.  The lcm is written out where the
lattice walk takes it, in multidegrees, and divisibility and support
masks where the twin reduction reads them, in twins; dominance,
semidominance and strong divisibility are computed on masks in
squarefree.shape_descriptor and on bit columns in
engine.dominant_quadruples.  Their definition-level versions on
exponent tuples are test references.
"""

from .errors import InvariantViolation
from .values import Value, set_field

NUM_VARS = 4

# the constant monomial x^0
UNIT = (0, 0, 0, 0)


class MonomialIdeal(Value):
    """The monomial ideal that an iterable of generators generates.

    gens holds its minimal generating set, lex-sorted, so ideals built
    from different generators of one ideal are equal.  The zero ideal
    has no generators; the unit ideal is generated by the constant
    monomial.
    """

    __slots__ = ("gens",)

    def __init__(self, gens):
        gens = tuple(gens)
        for g in gens:
            # exponents are exactly ints (no bool, float or NaN), so min compares numbers
            if (len(g) != NUM_VARS
                    or not type(g[0]) is type(g[1]) is type(g[2]) is type(g[3]) is int
                    or min(g) < 0):
                raise InvariantViolation(f"bad monomial {g!r}")
        # an ideal is a hashable value: an unhashable generator raises
        # TypeError in minimalize's set()
        set_field(self, "gens", minimalize(gens))

    def __hash__(self):
        return hash(self.gens)

    @property
    def is_zero(self):
        return not self.gens


def minimalize(gens):
    """Reduce a generating set to the unique minimal one, as a sorted tuple.

    Drops duplicates and any generator divisible by another generator.
    In lex order a proper divisor comes before its multiples, and a
    dropped generator's divisor divides them too, so each monomial is
    checked against the kept ones only.
    """
    kept = []
    for m in sorted(set(gens)):
        m0, m1, m2, m3 = m
        for g0, g1, g2, g3 in kept:
            if g0 <= m0 and g1 <= m1 and g2 <= m2 and g3 <= m3:
                break
        else:
            kept.append(m)
    return tuple(kept)
